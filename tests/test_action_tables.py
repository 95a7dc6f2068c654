"""Action files: a table map whose keys and values are all n-bit words, laid
out alike, is read as one fixed-width byte matrix; any other text, and any
doubt, goes to ``json.loads`` of the whole file.  Both reads give the same
specs, or the same error, for any document."""

import json
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab.boolcube import BooleanAction
from carlab.carsim import _read_tables, actions_from_json, load_actions, save_actions
from carlab.core import CarlabError, DataFormatError, load_json, save_json


def _document(n: int, seed: int, tables: int = 1) -> list:
    """A rule, ``tables`` tables of widths n, n + 1, ... with shuffled keys,
    and an affine action."""
    rng = np.random.default_rng(seed)
    doc = [{"action": "r1", "class": 1, "kind": "rule", "n": n, "exprs": ["~x1"] + ["0"] * (n - 1)}]
    for k, width in enumerate(range(n, n + tables)):
        word = lambda code: format(code, f"0{width}b")
        images = rng.integers(0, 1 << width, 1 << width).tolist()
        table = {word(code): word(images[code]) for code in rng.permutation(1 << width).tolist()}
        doc.append({"action": f"t{k + 2}", "class": k + 2, "kind": "table", "n": width, "map": table})
    doc.append({"action": "a9", "class": 9, "kind": "affine", "alpha": [1.0], "beta": [0.25]})
    return doc


def _layout(doc: list, layout: str, tmp: Path) -> str:
    if layout == "saved":  # the save_actions layout: sorted keys, indent 2
        save_json(doc, tmp / "saved.json")
        return (tmp / "saved.json").read_text(encoding="utf-8")
    if layout == "saved-crlf":
        return _layout(doc, "saved", tmp).replace("\n", "\r\n")
    separators = {"compact": None, "tight": (",", ":"), "spaced": (" ,  ", " : ")}[layout]
    return json.dumps(doc, separators=separators)


def _outcome(read, path: Path):
    try:
        return read(path)
    except DataFormatError as exc:
        return str(exc)


def _general(path: Path):
    return load_json(path, actions_from_json)


_ENTRY = re.compile(r'"([01]+)"([ \t\r\n]*:[ \t\r\n]*)"([01]+)"')
LAYOUTS = ["compact", "saved", "tight", "spaced", "saved-crlf"]
MUTATIONS = [
    "none", "escape", "repeat", "short-key", "long-value", "two", "space", "wrong-n", "escaped-in-string",
    "raw-in-string", "syntax", "nan", "forged-placeholder", "forged-table", "duplicate-map",
]


def _mutate(doc: list, layout: str, mutation: str, tmp: Path, draw) -> str:
    """The text of ``doc`` in ``layout`` with ``mutation`` applied at a drawn
    table entry."""
    if mutation == "wrong-n":
        doc[1]["n"] += draw(st.sampled_from([-1, 1]))
    elif mutation == "escaped-in-string":
        doc[0]["action"] = 'r{"0": "1", "1": "0"}'
    elif mutation == "forged-placeholder":  # a map keyed "" that the rule ignores
        doc[0]["map"] = {"": 0}
    elif mutation == "forged-table":  # the table's own map looks like a placeholder
        doc[1]["extra"], doc[1]["map"] = doc[1]["map"], {"": 0}
    text = _layout(doc, layout, tmp)
    entries = list(_ENTRY.finditer(text))
    at = entries[draw(st.integers(0, len(entries) - 1))]
    key, value = at.span(1), at.span(3)
    if mutation == "escape":  # the same key, written with a JSON escape
        return text[: key[0]] + "\\u003" + text[key[0]] + text[key[0] + 1 :]
    if mutation == "repeat":
        others = [e.group(1) for e in entries if len(e.group(1)) == len(at.group(1)) and e.group(1) != at.group(1)]
        return text[: key[0]] + draw(st.sampled_from(others)) + text[key[1] :]
    if mutation == "short-key":
        return text[: key[1] - 1] + text[key[1] :]
    if mutation == "long-value":
        return text[: value[1]] + draw(st.sampled_from("01")) + text[value[1] :]
    if mutation == "two":
        where = draw(st.sampled_from([*range(*key), *range(*value)]))
        return text[:where] + "2" + text[where + 1 :]
    if mutation == "space":
        where = draw(st.sampled_from([at.start(2), at.end(), at.start()]))
        return text[:where] + " " + text[where:]
    if mutation == "raw-in-string":
        return text.replace('"r1"', '"r{"0": "1", "1": "0"}1"', 1)
    if mutation == "syntax":
        return draw(st.sampled_from([text.rstrip()[:-1], text.replace('"a9"', '"a9",', 1), text + "x"]))
    if mutation == "nan":
        return text.replace("0.25", draw(st.sampled_from(["NaN", "Infinity", "-Infinity"])), 1)
    if mutation == "duplicate-map":  # a later "map" replaces the table
        end = text.index("}", text.index('"map"')) + 1
        return text[:end] + ', "map": {}' + text[end:]
    return text


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), tables=st.integers(1, 2),
    layout=st.sampled_from(LAYOUTS), data=st.data(),
)
def test_fast_and_general_reads_agree(mutation, n, seed, tables, layout, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "actions.json"
        path.write_text(_mutate(_document(n, seed, tables), layout, mutation, Path(tmp), data.draw), encoding="utf-8")
        assert _outcome(load_actions, path) == _outcome(_general, path)
        if mutation == "none":
            assert _read_tables(path.read_bytes()) is not None


_ONE_BIT = b'[{"action": "t", "class": 1, "kind": "table", "n": 1, "map": {"0": "1", "1": "0"}}]'


@pytest.mark.parametrize(
    "text",
    [
        b'[{"action": "t", "class": 1, "kind": "table", "n": 1, "map": {"": 0}, "x": {"0": "1", "1": "0"}}]',
        b'[{"action": "t", "class": 1, "kind": "table", "n": 1, "map": {"0": "1", "1": "0"}, "map": {"": 0}}]',
        b'[{"action": "t", "class": 1, "kind": "rule", "n": 1, "exprs": ["x1"], "map": {"0": "1", "1": "0"}}]',
        b'{"0": "1", "1": "0"}',
        _ONE_BIT[:-1] + b', "x{"0": "1"}"]',
        _ONE_BIT.replace(b'"n": 1', b'"n": -1'),
        _ONE_BIT.replace(b'"n": 1', b'"n": true'),
        _ONE_BIT.replace(b'"t"', b'"t\xff"'),
        b"\xef\xbb\xbf" + _ONE_BIT,
        _ONE_BIT.replace(b'"0"}', b'"0"\f}'),
        _ONE_BIT[:-3],
        _ONE_BIT.replace(b'"n": 1', b'"n": 9').replace(b'"0": "1"', b'"000000000": "1"'),
        _ONE_BIT.replace(b'"0"}', b'"00"}').replace(b'"0": "1"', b'"0": "11"'),
        b'[{"action": "r", "class": 1, "kind": "rule", "n": 1, "exprs": {"0": "1", "1": "0"}}]',
        _ONE_BIT,
    ],
    ids=[
        "literal-placeholder", "overridden-table", "map-of-a-rule", "not-a-list", "raw-text-in-a-string",
        "negative-n", "bool-n", "bad-utf8", "bom", "form-feed-before-brace", "cut-short", "wide-first-key",
        "long-values", "table-as-exprs", "valid",
    ],
)
def test_doubtful_documents_read_as_the_general_path_reads_them(tmp_path, text):
    path = tmp_path / "actions.json"
    path.write_bytes(text)
    assert _outcome(load_actions, path) == _outcome(_general, path)


def _benchmark_actions(tmp_path: Path) -> Path:
    """The actions file of the bool-inverse benchmark, seed 1."""
    root = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(root))
    try:
        import workloads
    finally:
        sys.path.remove(str(root))
    workload = workloads.WORKLOADS["bool-inverse"]
    workload.generate(workloads.workload_rng("bool-inverse", 1), tmp_path, workload.sizes)
    return tmp_path / "actions.json"


def test_both_layouts_take_the_fast_path(tmp_path, monkeypatch):
    compact = _benchmark_actions(tmp_path)
    saved = tmp_path / "saved.json"
    save_actions(load_actions(compact), saved)
    texts = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: texts.append(text) or loads(text, **kw))
    for path in (compact, saved):
        texts.clear()
        specs = load_actions(path)
        assert [spec.kind for spec in specs] == ["rule", "table"] and specs[1].n == 12
        assert len(texts) == 1 and len(texts[0]) < 400 and '"map": {"": 0}' in texts[0]
    assert specs == _general(compact)


def test_an_n16_table_reads_in_less_than_twice_its_size(tmp_path):
    path = tmp_path / "actions.json"
    path.write_text(json.dumps(_document(16, 5)), encoding="utf-8")
    tracemalloc.start()
    try:
        specs = load_actions(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert specs[1].n == 16
    assert peak < 2 * path.stat().st_size


@pytest.mark.parametrize(
    "image",
    [np.array([0, 1, 2]), np.array([0, 1, 2, 4]), np.array([0, -1, 2, 3]), np.array([0.0, 1.0, 2.0, 3.0]),
     np.array([[0, 1], [2, 3]])],
    ids=["short", "past-the-cube", "negative", "float", "2-d"],
)
def test_a_table_image_is_checked_where_it_enters(image):
    assert BooleanAction("a", 2, table=np.array([3, 2, 1, 0])).table_words() == {"00": "11", "01": "10", "10": "01", "11": "00"}
    with pytest.raises(CarlabError, match=r"^a table image must be 4 int64 codes in \[0, 4\)$"):
        BooleanAction("a", 2, table=image)
