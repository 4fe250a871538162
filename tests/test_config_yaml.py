"""config.read_yaml against PyYAML, the oracle: it reads what yaml.safe_load
reads on every shipped and benchmark config, on hand-written YAML of the
accepted subset and on generated config-shaped documents dumped every way
yaml.safe_dump writes them; and each construct outside the subset, a
duplicate key or a YAML 1.1 surprise numeral exits 2 naming the line."""

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shiftpress.cli import main
from shiftpress.config import read_yaml
from shiftpress.errors import InputError
from test_config_cli import CONFIG_DIR, _workloads


def assert_reads_as_safe_load(text):
    # repr tells 1 from 1.0 and True, -0.0 from 0.0, and shows key order
    assert repr(read_yaml(text)) == repr(yaml.safe_load(text)), text


def test_reader_matches_safe_load_on_shipped_and_benchmark_configs(monkeypatch):
    workloads = _workloads(monkeypatch)
    texts = [p.read_text() for p in sorted(CONFIG_DIR.glob("*.yaml"))]
    for name in workloads.NAMES:
        for seed in range(5):
            texts += workloads.build(name, CONFIG_DIR.parent, seed).configs.values()
    assert len(texts) == 6 + 5 * 15
    for text in texts:
        assert_reads_as_safe_load(text)


HAND_WRITTEN = [
    "",
    "# only a comment\n",
    "---\nseed: 3\n",
    "--- {seed: 3}",
    "label:   spaced   words   # a comment\nseed: 0 #another\n",
    "label: a plain scalar\n  folded over\n\n  three lines\nseed: 1",
    "label: 'single ''quoted''\n\n   folded'\n"
    "x: \"tab\\tescape \\\"q\\\" \\x41\\u00e9\\\n   joined\"\n",
    "subshift:\n  factors:\n  - family: full_shift\n    alphabet_size: 2\n"
    "  -   family: golden_mean\n",
    "subshift:\n  factors:\n    - {family: sft, forbidden: ['11', \"101\"]}\n"
    "    - family: golden_mean\n",
    "n_range: [1, 2,\n   3, 4,]\nempty: []\nnone: {}\n",
    "values: {'000': 0.5, \"001\": .5, 010x: 1., 7: +5}\n",
    "a: ~\nb: null\nc:\nd: Null\ne: yes\nf: Off\ng: TRUE\nh: no\n",
    "ints: [0, -0, +7, 1_000, 08, 09.5, 1e-9, 1.0e-9, 1.0E+3, 1.e5, -.5, .inf, -.Inf]\n",
    "words: [a:b, a#b, -x, http://x.y/z, 'it''s']\nkey with spaces: v\n\"quoted key\": 1\n",
    "- - 1\n  - 2\n- - 3\n",
    "top:\n- a\n-\n- - b\n  - c\nnext: 1\n",
    "'0': {k: v}\n1: one\n2.5: x\nfalse: f\n",
    "deep:\n    four:\n          ten: 10\n    back: 4\n",
    "\ufeffseed: 1\n",
]


@pytest.mark.parametrize("text", HAND_WRITTEN)
def test_reader_matches_safe_load_on_hand_written_yaml(text):
    assert_reads_as_safe_load(text)


_KEY_TEXT = st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\n\r\x85\u2028\u2029")
KEYS = st.sampled_from(["label", "subshift", "family", "n_max", "values", "000", "1", "true"]) \
    | st.text(_KEY_TEXT, min_size=1, max_size=12)
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=120)
    | st.text(" ab:#-'\"[]{},?!&*|>%@`\\\n\t0123.e_", max_size=100)
)
DOCS = st.dictionaries(KEYS, st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=5) | st.dictionaries(KEYS, inner, max_size=5),
    max_leaves=25,
), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(DOCS)
def test_reader_matches_safe_load_on_generated_documents(doc):
    for sort_keys in (True, False):
        for flow_style in (False, None):
            text = yaml.safe_dump(doc, sort_keys=sort_keys, default_flow_style=flow_style)
            assert_reads_as_safe_load(text)


REJECTED = [
    ("seed: 0\nlabel: &a x\n", 2, "label: anchors are not supported"),
    ("label: x\nother: *a\n", 2, "other: aliases are not supported"),
    ("seed: !!int 3\n", 1, "seed: tags are not supported"),
    ("label: |\n  text\n", 1, "label: block scalars are not supported"),
    ("label: >-\n  text\n", 1, "label: block scalars are not supported"),
    ("subshift:\n\tfamily: golden_mean\n", 2, "tabs are not supported"),
    ("seed: 1\n---\nseed: 2\n", 2, "several documents"),
    ("seed: 1\n...\n", 2, "several documents"),
    ("seed: 0\nlabel: x\nseed: 5\n", 3, "seed: duplicate key"),
    ("horizons:\n  n_max: 8\n  n_max: 9\n", 3, "horizons.n_max: duplicate key"),
    ("horizons: {n_max: 8,\n  n_max: 9}\n", 2, "horizons.n_max: duplicate key"),
    ("horizons: {n_max: 010}\n", 1, "horizons.n_max: '010' is an octal"),
    ("seed: 0x1F\n", 1, "seed: '0x1F' is an octal, hex"),
    ("seed: -0b101\n", 1, "seed: '-0b101' is an octal, hex, binary"),
    ("seed: 1:30\n", 1, "seed: '1:30' is an octal, hex, binary or base-60"),
    ("checks:\n  anchors:\n    epsilons: [0.5, 1:30.5]\n", 3,
     "checks.anchors.epsilons[1]: '1:30.5'"),
    ("label: 2024-01-31\n", 1, "label: '2024-01-31' is an octal"),
    ("subshift:\n  <<: {family: golden_mean}\n", 2, "subshift.<<: '<<' is"),
    ("? seed\n: 1\n", 1, "a value cannot start with '?'"),
    ("label: 'open\n", 2, "unterminated quoted scalar"),
    ("label: \"bad \\q escape\"\n", 1, "unknown escape \\q"),
    ("n_range: [1, 2\n", 2, "n_range: ',' or ']' expected"),
    ("label: a: b\n", 1, "label: a plain value cannot hold ': '"),
    ("label: 'x' y\n", 1, "label: unexpected text after the value"),
    ("subshift:\n  family: sft\n forbidden: []\n", 3, "unexpected indentation"),
    ("horizons:\n  n_max: 8\n    m_max: 4\n", 3, "horizons.n_max: a plain value cannot hold ': '"),
    ("horizons:\n  n_max: 8\n  - 4\n", 3, "expected 'key: value'"),
    ("{[a]: 1}\n", 1, "collections as keys are not supported"),
]


@pytest.mark.parametrize("text, line, why", REJECTED,
                         ids=[why.rsplit(": ", 1)[-1] for _, _, why in REJECTED])
def test_yaml_outside_the_subset_exits_2_naming_the_line(tmp_path, capsys, text, line, why):
    with pytest.raises(InputError, match=f"^line {line}: "):
        read_yaml(text)
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["enumerate", "--config", str(path), "--out", str(out)]) == 2
    assert f"config {path}, line {line}: {why}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, why", [
    (lambda t: t + "seed: 5\n", "line 39: seed: duplicate key"),
    (lambda t: t.replace("  n_max: 24\n", "  n_max: 010\n"), "line 10: horizons.n_max: '010'"),
])
def test_shipped_config_with_a_duplicate_or_octal_exits_2(tmp_path, capsys, edit, why):
    path = tmp_path / "golden_mean.yaml"
    path.write_text(edit((CONFIG_DIR / "golden_mean.yaml").read_text()))
    assert main(["enumerate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert why in capsys.readouterr().err
