"""Experiment configuration: one YAML document describes one experiment.

The document carries a subshift declaration, a potential declaration,
horizons, tolerances, strategy selections and per-check parameter blocks.
Each section is read against its key table below. An unknown key at any
level, or a value its reader rejects, is an InputError naming its dotted
path (`subshift.factors[1].alphabet_size`), so the command line exits 2
before it writes anything. The raw mapping is kept beside the converted
view, so the config digest (sha256 of the canonical JSON form) is stable.
No environment variables are consulted.

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
      density_glue: {n_range: [2, 3, 4]}
    output_dir: out

Documents are read by read_yaml, a strict reader of the YAML subset
configs use; it gives what PyYAML's safe_load gives on that subset.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .errors import InputError
from .potentials import (
    LocallyConstantPotential,
    Potential,
    ZeroPotential,
    make_reciprocal_run,
    make_run_levels,
)
from .subshifts import (
    MODE_SPECIFICATION,
    MODE_TRANSITIVITY,
    PAIR_BUDGET,
    STRATEGIES,
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


class Horizons(NamedTuple):
    n_max: int = 12
    m_max: int | None = None
    n_state: int | None = None
    var_horizon: int | None = None


class Tolerances(NamedTuple):
    margin: float = 1e-9
    perron: float = 1e-12


class ExperimentConfig(NamedTuple):
    raw: dict
    label: str
    subshift: dict
    potential: dict = {"kind": "zero"}  # the dict defaults are shared: read only
    horizons: Horizons = Horizons()
    tolerances: Tolerances = Tolerances()
    strategy: str = "exhaustive"
    mode: str = MODE_TRANSITIVITY
    seed: int = 0
    pair_budget: int = PAIR_BUDGET
    checks: dict = {}
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


def _at(path: str, key) -> str:
    """The dotted path of key in the mapping at path."""
    return f"{path}.{key}" if path else str(key)


def read_section(value: Any, table: dict, path: str) -> dict:
    """value, a mapping, with each key converted by its reader in table (a
    dict there is a nested section's table). An unknown key, or a value its
    reader rejects, raises InputError naming the dotted path; "" is the
    top level. Absent keys stay absent."""
    out = {}
    for key, item in _as_mapping(value, path or "config").items():
        at = _at(path, key)
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
# checks.<tag>: the parameters a command, or `verify <tag>`, reads; the
# tags of `verify` are the checks in verify.py
CHECK_DENSITY_GLUE = "density_glue"
CHECK_SPARSE_GLUE = "sparse_glue"
CHECK_PARTITION_SPEC = "partition_upper_spec"
CHECK_PARTITION_ANCHOR = "partition_upper_anchor"
CHECK_PARTITION_TRANS = "partition_upper_trans"
CHECK_MEASURE_LOWER = "measure_lower"
_N_RANGE = _list_of(_positive, 1)


def _epsilons(value, path) -> list[float]:  # anchor_sequence's targets, tightest last
    eps = _list_of(_float_from(0, strict=True))(value, path)
    if sorted(eps, reverse=True) != eps:
        raise ValueError(f"expected non-increasing epsilons, got {value!r}")
    return eps


_VERIFY_TABLES = {
    # density_glue's slack is accepted and read by nothing: gap f(n) decides every longer gap
    CHECK_DENSITY_GLUE: {"n_range": _N_RANGE, "slack": _natural, "f_const": _natural},
    CHECK_SPARSE_GLUE: {"n_range": _N_RANGE, "strategy": _one_of(*STRATEGIES),
                        "f_const": _natural},
    CHECK_PARTITION_SPEC: {"pressure": _pressure, "f_const": _natural, "n_range": _N_RANGE},
    CHECK_PARTITION_ANCHOR: {"pressure": _pressure, "epsilon": _float_from(0),
                             "epsilons": _epsilons, "anchors": _N_RANGE},
    CHECK_PARTITION_TRANS: {"pressure": _pressure, "C": _float_from(0, strict=True),
                            "onset": _int_from(3), "f_const": _natural, "n_range": _N_RANGE},
    CHECK_MEASURE_LOWER: {"cylinder": _word, "n_range": _N_RANGE},
}
ALL_CHECKS = tuple(_VERIFY_TABLES)
CHECK_TABLES = {"gap_profile": {"n_range": _N_RANGE}, "anchors": {"epsilons": _epsilons},
                **_VERIFY_TABLES}
CONFIG_TABLE = {
    "label": _str, "subshift": _read_subshift, "potential": _read_potential,
    "horizons": dict.fromkeys(Horizons._fields, _or_none(_natural)) | {"n_max": _positive},
    "tolerances": {"margin": _float_from(0), "perron": _float_from(0, strict=True)},
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
        doc = read_yaml(text)
    except InputError as exc:
        raise InputError(f"config {path}, {exc}") from None
    if doc is None:
        raise InputError(f"config {path} is empty")
    return config_from_dict(doc)


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
        return [-(-num * n // den) for n in ns]  # exact ceiling; the reader keeps den >= 1
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


# ---------------------------------------------------------------------------
# the YAML subset configs use
# ---------------------------------------------------------------------------

# Plain scalars resolve as PyYAML's YAML 1.1 resolver reads them to null,
# bool, decimal int and float. The other forms it resolves, octal, hex,
# binary and base-60 numerals, dates, `<<` and `=`, are rejected.
_BOOLS = {word: value for value, words in ((True, "yes Yes YES true True TRUE on On ON"),
                                           (False, "no No NO false False FALSE off Off OFF"))
          for word in words.split()}
_NULLS = ("", "~", "null", "Null", "NULL")
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9_]*)")
_FLOAT = re.compile(r"[-+]?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?"
                    r"|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)")
_SURPRISE = re.compile(
    r"[-+]?(?:0b[01_]+|0[0-7_]+|0x[0-9a-fA-F_]+|[1-9][0-9_]*(?::[0-5]?[0-9])+"
    r"|[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*)|<<|=|[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"|[0-9]{4}-[0-9]{1,2}-[0-9]{1,2}(?:[Tt]| +)[0-9]{1,2}:[0-9]{2}:[0-9]{2}(?:\.[0-9]*)?"
    r"(?: *(?:Z|[-+][0-9]{1,2}(?::[0-9]{2})?))?"
)
# a plain scalar runs to a comment, ': ' or the line end; in [...] and {...}
# also to , [ ] { }
_PLAIN = re.compile(r".*?(?= #|:(?:[ \n]|\Z)|\n|\Z)")
_FLOW_PLAIN = re.compile(r".*?(?= #|:(?:[ \n,\[\]{}]|\Z)|[\n,\[\]{}]|\Z)")
_QUOTED = {"'": re.compile(r"[^'\n]*"), '"': re.compile(r'[^"\\\n]*')}
_ESCAPES = {"0": "\0", "a": "\a", "b": "\b", "t": "\t", "n": "\n", "v": "\v", "f": "\f",
            "r": "\r", "e": "\x1b", " ": " ", '"': '"', "/": "/", "\\": "\\", "N": "\x85",
            "_": "\xa0", "L": "\u2028", "P": "\u2029"}
_HEX_WIDTH = {"x": 2, "u": 4, "U": 8}
_HEX = re.compile(r"[0-9a-fA-F]*")
_SPACES = re.compile(r" *")
_BLANK = re.compile(r"(?: *(?:#.*)?\n)* *(?:#.*)?")
_COLON = re.compile(r" *:(?=[ \n]|\Z)")
_EOL = re.compile(r" *(?:#.*)?(?:\n|\Z)")
_FLOW_SPACE = re.compile(r"(?:[ \n]|#.*)*")
_MARKER = re.compile(r"(?:---|\.\.\.)(?:[ \n]|\Z)")
# not printable as PyYAML has it (surrogates aside: text read from a file
# holds none), tabs, and the line breaks \x85, \u2028, \u2029
_BAD_CHAR = re.compile("[\x00-\x09\x0b-\x1f\x7f-\x9f\u2028\u2029\ufffe\uffff]")
_UNSUPPORTED = {"&": "anchors", "*": "aliases", "!": "tags", "|": "block scalars",
                ">": "block scalars"}
_NOT_KEY = object()


def read_yaml(text: str) -> Any:
    """The document in text, as yaml.safe_load reads it, for the YAML subset
    configs use: block mappings and sequences (`- key: v` items included),
    flow [...] and {...} collections, plain, 'single' and "double" quoted
    scalars folded over lines, and comments. Anything else, a duplicate key
    or a plain scalar YAML 1.1 reads as anything but null, a bool, a decimal
    int or a float raises InputError naming the line."""
    text = text.removeprefix("\ufeff")
    start = _BLANK.match(text).end()  # one leading document marker is read as spaces
    if text[start - 1:start] in ("", "\n") and text.startswith("---", start) \
            and _MARKER.match(text, start):
        text = text[:start] + "   " + text[start + 3:]
    reader = _Yaml(text)
    if bad := _BAD_CHAR.search(text):
        reader.p = bad.start()
        reader.fail("tabs are not supported" if bad.group() == "\t"
                    else f"character {bad.group()!r} is not supported")
    col = reader.blank()
    doc = None if col < 0 else reader.node(col, -1, "")
    if reader.blank() >= 0:
        reader.fail("expected the end of the document")
    return doc


class _Yaml:
    """Recursive descent over the text s from position p. A block node is
    read at its column; plain scalars continue on lines indented past the
    parent block's column."""

    def __init__(self, text: str):
        self.s, self.p = text, 0

    def fail(self, why: str, path: str = ""):
        line = self.s.count("\n", 0, self.p) + 1
        raise InputError(f"line {line}: {path + ': ' if path else ''}{why}")

    def column(self, p: int) -> int:
        return p - self.s.rfind("\n", 0, p) - 1

    def blank(self) -> int:
        """Skip blank and comment lines; the column of the next text, -1 at the end."""
        s = self.s
        self.p = p = _BLANK.match(s, self.p).end()
        if p == len(s):
            return -1
        col = self.column(p)
        if col == 0 and _MARKER.match(s, p):
            self.fail("several documents, or document markers, are not supported")
        return col

    def eol(self) -> bool:
        """Skip spaces and a comment to the line end, if nothing else is before it."""
        m = _EOL.match(self.s, self.p)
        if m:
            self.p = m.end()
        return m is not None

    def entry(self) -> bool:
        """At a block sequence entry: '-' before a space or a line end."""
        return self.s.startswith("-", self.p) and self.s[self.p + 1:self.p + 2] in ("", " ", "\n")

    def node(self, col: int, parent: int, path: str):
        """The block node at p, at column col."""
        if self.entry():
            return self.seq(col, path)
        key = self.key(path)
        return self.leaf(parent, path) if key is _NOT_KEY else self.mapping(col, path, key)

    def seq(self, col: int, path: str) -> list:
        out = []
        while True:
            self.p += 1
            out.append(self.value(col, f"{path}[{len(out)}]", False))
            at = self.blank()
            if at > col:
                self.fail("unexpected indentation")
            if at < col or not self.entry():
                return out

    def mapping(self, col: int, path: str, key) -> dict:
        out = {}
        while True:
            at = _at(path, key)
            if key in out:
                self.fail("duplicate key", at)
            out[key] = self.value(col, at, True)
            indent = self.blank()
            if indent > col:
                self.fail("unexpected indentation")
            if indent < col:
                return out
            key = self.key(path)
            if key is _NOT_KEY:
                self.fail("expected 'key: value'")

    def value(self, col: int, path: str, in_map: bool):
        """The value after the ':' of a key or the '-' of an entry at column col."""
        s = self.s
        if not self.eol():
            self.p = _SPACES.match(s, self.p).end()
            if in_map:  # `key: value` holds no mapping or sequence after the ':'
                return self.leaf(col, path)
            return self.node(self.column(self.p), col, path)
        at = self.blank()
        if at > col or in_map and at == col and self.entry():  # `key:` then `- item` lines
            return self.node(at, col, path)
        return None

    def key(self, path: str):
        """The key at p, p moved past its ':', or _NOT_KEY with p left in place."""
        s, start = self.s, self.p
        if s.startswith(("'", '"'), start):
            key = self.quoted()
        elif self.unplain(False):
            return _NOT_KEY
        else:
            m = _PLAIN.match(s, start)
            key, self.p = m.group().rstrip(" "), m.end()
        colon = _COLON.match(s, self.p)
        if colon is None:
            self.p = start
            return _NOT_KEY
        if "\n" in s[start:self.p]:
            self.fail("a key must fit on one line")
        self.p = colon.end()
        return key if s[start] in "'\"" else self.resolve(key, _at(path, key))

    def leaf(self, parent: int, path: str):
        """The flow collection or scalar at p, ending its line."""
        s = self.s
        if s.startswith(("[", "{"), self.p):
            value = self.flow(path)
        elif s.startswith(("'", '"'), self.p):
            value = self.quoted()
        else:
            value = self.resolve(self.plain(parent, _PLAIN, path), path)
            if s.startswith(":", self.p):
                self.fail("a plain value cannot hold ': '; quote it", path)
        if not self.eol():
            self.fail("unexpected text after the value", path)
        return value

    def flow(self, path: str):
        """The [...] or {...} collection at p, over any number of lines."""
        s, close = self.s, "]" if self.s[self.p] == "[" else "}"
        out = [] if close == "]" else {}
        self.p += 1
        while True:
            self.p = _FLOW_SPACE.match(s, self.p).end()
            if s.startswith(close, self.p):
                self.p += 1
                return out
            if self.p == len(s):
                self.fail(f"'{close}' expected", path)
            if close == "]":
                out.append(self.flow_node(f"{path}[{len(out)}]"))
            else:
                key = self.flow_node(path, key=True)
                at = _at(path, key)
                if key in out:
                    self.fail("duplicate key", at)
                self.p = _FLOW_SPACE.match(s, self.p).end()
                out[key] = None
                if s.startswith(":", self.p):
                    self.p = _FLOW_SPACE.match(s, self.p + 1).end()
                    if not s.startswith((",", "}"), self.p):
                        out[key] = self.flow_node(at)
            self.p = _FLOW_SPACE.match(s, self.p).end()
            if s.startswith(",", self.p):
                self.p += 1
            elif not s.startswith(close, self.p):
                self.fail(f"',' or '{close}' expected", path)

    def flow_node(self, path: str, key: bool = False):
        s = self.s
        if s.startswith(("[", "{"), self.p):
            if key:
                self.fail("collections as keys are not supported", path)
            return self.flow(path)
        if s.startswith(("'", '"'), self.p):
            return self.quoted()
        text = self.plain(-1, _FLOW_PLAIN, path)
        return self.resolve(text, _at(path, text) if key else path)

    def unplain(self, flow: bool) -> str:
        """Why no plain scalar starts at p, or ""."""
        s, p = self.s, self.p
        c, after = s[p:p + 1], s[p + 1:p + 2]
        if c in _UNSUPPORTED:
            return f"{_UNSUPPORTED[c]} are not supported"
        if c in ("", "\n"):
            return "a value is missing"
        if c in "#,[]{}%@`'\"" or c in "-?:" and (after in ("", " ", "\n") or flow and c != "-"):
            return f"a value cannot start with {c!r}; quote it"
        return ""

    def plain(self, parent: int, pattern, path: str) -> str:
        """The plain scalar at p, folded over the lines that continue it."""
        if why := self.unplain(pattern is _FLOW_PLAIN):
            self.fail(why, path)
        s = self.s
        m = pattern.match(s, self.p)
        text, self.p = m.group().rstrip(" "), m.end()
        while s.startswith("\n", self.p):
            j, blank = self.breaks(self.p)
            more = pattern.match(s, j).group().rstrip(" ")
            if not more or s[j] == "#" or self.column(j) <= parent:
                break
            text += "\n" * blank or " "
            text += more
            self.p = pattern.match(s, j).end()
        return text

    def breaks(self, j: int) -> tuple[int, int]:
        """From the line break at j: the first non-space position after it and
        any blank lines, and the number of those blank lines."""
        blank = -1
        while True:
            j = _SPACES.match(self.s, j + 1).end()
            blank += 1
            if not self.s.startswith("\n", j):
                return j, blank

    def quoted(self) -> str:
        """The quoted scalar at p: '' escapes ' in single quotes, backslash
        escapes work in double quotes; line breaks fold as in plain scalars."""
        s, q = self.s, self.s[self.p]
        out, j = [], self.p + 1
        while True:
            m = _QUOTED[q].match(s, j)
            out.append(m.group())
            self.p = j = m.end()
            c = s[j:j + 1]
            if c == q == "'" and s.startswith("''", j):
                out.append("'")
                j += 2
            elif c == q:
                self.p = j + 1
                return "".join(out)
            elif c == "\n":
                out[-1] = out[-1].rstrip(" ")
                j, blank = self.breaks(j)
                out.append("\n" * blank or " ")
            elif c == "\\":
                e = s[j + 1:j + 2]
                if e == "\n":  # an escaped line break folds to nothing
                    j, blank = self.breaks(j + 1)
                    out.append("\n" * blank)
                elif e in _HEX_WIDTH:
                    digits = s[j + 2:j + 2 + _HEX_WIDTH[e]]
                    if len(digits) < _HEX_WIDTH[e] or not _HEX.fullmatch(digits) \
                            or int(digits, 16) > 0x10FFFF:
                        self.fail(f"bad escape \\{e}{digits}")
                    out.append(chr(int(digits, 16)))
                    j += 2 + len(digits)
                elif e and e in _ESCAPES:
                    out.append(_ESCAPES[e])
                    j += 2
                else:
                    self.fail(f"unknown escape \\{e}")
            else:
                self.fail("unterminated quoted scalar")

    def resolve(self, text: str, path: str):
        """A plain scalar's value."""
        if text in _NULLS:
            return None
        if text in _BOOLS:
            return _BOOLS[text]
        if _INT.fullmatch(text):
            return int(text.replace("_", ""))
        if _FLOAT.fullmatch(text):
            number = text.replace("_", "")  # .inf and .nan drop their dot for Python
            return float(number.replace(".", "") if number[-1].isalpha() else number)
        if _SURPRISE.fullmatch(text):
            self.fail(f"{text!r} is an octal, hex, binary or base-60 number, a date or a merge "
                      "key in YAML 1.1; quote it, or write a decimal number", path)
        return text
