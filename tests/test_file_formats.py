"""Every file format has one reader and one writer: a file the writer made
reads back and writes out again byte for byte.  The one JSON writer makes
the bytes of ``json.dumps(doc, sort_keys=True, indent=2)`` and is the only
JSON encoder entry point in the package."""

import contextlib
import inspect
import io
import json
import re
import tokenize
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab import synth
from carlab import core
from carlab.boolcube import all_vertices
from carlab.carsim import ActionSpec, load_actions, register_actions, run_car, save_actions
from carlab.cli import main
from carlab.core import (
    load_json,
    load_learning_set,
    load_trace_log,
    save_json,
    save_learning_set,
    save_trace_log,
)
from carlab.lcpr import ld_classifier, load_ldset, mine_lds, save_ldset
from carlab.mdp import estimate_mdp, load_mdp, save_mdp
from carlab.poset import (
    build_level_diagram,
    diagram_from_json,
    diagram_to_json,
    load_transition_records,
    save_transition_records,
)


def _contracting():
    learning_set, specs, graph = synth.contracting_instance(deviated_count=3)
    lds = mine_lds(learning_set)
    report = run_car(learning_set.samples, ld_classifier(lds), register_actions(specs, 3), 6)
    return learning_set, specs, graph, lds, report.traces


def _boolean_actions():
    flip = synth.random_boolean_action(synth.default_rng(3), "a1", 3)
    return [
        ActionSpec("a1", 1, "table", n=3, table={v: flip.apply(v) for v in all_vertices(3)}),
        ActionSpec("a2", 2, "rule", n=3, exprs=("1", "~x2", "x3")),
    ]


def _diagram_json(diagram, dest):
    save_json(diagram_to_json(diagram), dest)


# name -> (object maker, writer, reader, file suffix)
FORMATS = {
    "dataset-csv": (lambda: _contracting()[0], save_learning_set, load_learning_set, ".csv"),
    "trace-csv": (lambda: _contracting()[4], save_trace_log, load_trace_log, ".csv"),
    "transition-csv": (
        lambda: synth.random_transition_graph(synth.default_rng(11)),
        save_transition_records,
        load_transition_records,
        ".csv",
    ),
    "ldset-json": (lambda: _contracting()[3], save_ldset, load_ldset, ".json"),
    "mdp-json": (lambda: synth.random_mdp(synth.default_rng(37)), save_mdp, load_mdp, ".json"),
    "affine-actions-json": (lambda: _contracting()[1], save_actions, load_actions, ".json"),
    "boolean-actions-json": (_boolean_actions, save_actions, load_actions, ".json"),
    "diagram-json": (
        lambda: build_level_diagram(_contracting()[2]),
        _diagram_json,
        lambda path: load_json(path, diagram_from_json),
        ".json",
    ),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_read_then_write_is_byte_identical(tmp_path, name):
    make, save, load, suffix = FORMATS[name]
    first, second = tmp_path / f"first{suffix}", tmp_path / f"second{suffix}"
    save(make(), first)
    save(load(first), second)
    assert second.read_bytes() == first.read_bytes()
    assert first.stat().st_size > 0


def _reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _written(doc) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        save_json(doc, None)
    return out.getvalue()


# Any code point, lone surrogates and control characters included.
TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["\ud800", "a\udfffb", "\x00\x1f\x7f", "\u00e9\u4e2d\U0001f600"]
)
FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 1e308, -1e308, 5e-324, float("nan"), float("inf"), -float("inf")]
)
INTS = st.integers() | st.integers(min_value=2**63).map(lambda v: v**3) | st.integers(max_value=-(2**63))
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT


def _containers(inner):
    """Lists, tuples and dicts of ``inner``; a dict's keys are strings, or
    numbers (ints, floats and bools mixed), or None: str and number keys
    do not sort together."""
    return (
        st.lists(inner, max_size=6)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(TEXT, inner, max_size=5)
        | st.dictionaries(INTS | FLOATS | st.booleans(), inner, max_size=5)
        | st.dictionaries(st.none(), inner, max_size=1)
    )


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(doc=st.recursive(SCALARS, _containers, max_leaves=40))
def test_json_writer_matches_the_indent_encoder(doc):
    assert _written(doc) == _reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        list(range(120_000)),
        {"k": [f"{i:06d}" for i in range(120_000)]},
        {"k": {f"{i:06d}": i * 0.5 for i in range(60_000)}},
    ],
    ids=["list", "nested-list", "nested-dict"],
)
def test_json_writer_matches_the_indent_encoder_on_long_containers(doc):
    """json's C encoder returns a long container in several chunks."""
    assert _written(doc) == _reference(doc)


def _cycle():
    doc = {"a": [1, {"b": []}]}
    doc["a"][1]["b"].append(doc)
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        {1, 2},
        b"bytes",
        {"a": 1, 2: "b"},
        [1, {"k": [b"x"]}],
        {"x": {"a": [1], 2: []}},
        {"x": [{1.5: {}, "y": 0}]},
        {"x": {(1, 2): [3]}},
        {"x": {(1, 2): 3}},
        _cycle(),
    ],
    ids=["set", "bytes", "mixed-keys", "nested-bytes", "nested-mixed-keys", "flat-mixed-keys",
         "tuple-key", "flat-tuple-key", "cycle"],
)
def test_json_writer_raises_as_the_indent_encoder(tmp_path, doc):
    with pytest.raises(Exception) as expected:
        _reference(doc)
    dest = tmp_path / "out.json"
    with pytest.raises(expected.type):
        save_json(doc, dest)
    assert expected.type in (TypeError, ValueError)
    assert not dest.exists()


# Text that looks like the writer's own syntax: %-templates, brackets, and
# a separator between leaves, which json escapes inside a string.
TRICKY = st.sampled_from(["%", "%s", "%%s", "a%db", "[", "]", "{", "}", "},\n    {", "],\n      [", "\n"])
TRICKY_SCALARS = SCALARS | TRICKY
TRICKY_KEYS = TEXT | TRICKY


def _leaf(kind: str):
    """A container of scalars: a list, a tuple, a str-keyed or a number-keyed dict."""
    return {
        "list": st.lists(TRICKY_SCALARS, max_size=4),
        "tuple": st.lists(TRICKY_SCALARS, max_size=3).map(tuple),
        "dict": st.dictionaries(TRICKY_KEYS, TRICKY_SCALARS, max_size=4),
        "number-dict": st.dictionaries(INTS | FLOATS | st.booleans(), TRICKY_SCALARS, max_size=3),
    }[kind]


LEAVES = st.sampled_from(["list", "tuple", "dict", "number-dict"]).flatmap(_leaf)
# Table cells: scalars, empty and non-empty leaves, and now and then a
# container that holds a container, which the table path must refuse.
CELLS = TRICKY_SCALARS | LEAVES | st.sampled_from([{}, [], ()]) | st.lists(LEAVES, max_size=2)


def _keyed(draw, items):
    """``items`` as a list, or as a dict keyed by strings or by ints."""
    shape = draw(st.sampled_from(["list", "str-dict", "int-dict"]))
    if shape == "list":
        return list(items)
    keys = TRICKY_KEYS if shape == "str-dict" else INTS
    return dict(zip(draw(st.lists(keys, min_size=len(items), max_size=len(items), unique=True)), items))


def _nest(draw, doc):
    """``doc`` at a drawn depth, so that each indent is reached."""
    for _ in range(draw(st.integers(0, 3))):
        doc = draw(st.sampled_from([lambda d: [d], lambda d: {"k": d, "n": 0}, lambda d: [1, d]]))(doc)
    return doc


@st.composite
def _tables(draw):
    """2-8 records sharing fewer str keys than there are records."""
    rows = draw(st.integers(2, 8))
    names = draw(st.lists(TRICKY_KEYS, min_size=1, max_size=rows - 1, unique=True))
    return _nest(draw, _keyed(draw, [{k: draw(CELLS) for k in names} for _ in range(rows)]))


@st.composite
def _leaf_containers(draw):
    """Leaf containers of one kind, with or without empty ones."""
    kind = draw(st.sampled_from(["list", "tuple", "dict", "number-dict"]))
    leaves = _leaf(kind) if draw(st.booleans()) else _leaf(kind).filter(len)
    return _nest(draw, _keyed(draw, draw(st.lists(leaves, min_size=1, max_size=6))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=_tables())
def test_json_writer_matches_the_indent_encoder_on_tables(doc):
    assert _written(doc) == _reference(doc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=_leaf_containers())
def test_json_writer_matches_the_indent_encoder_on_leaf_containers(doc):
    assert _written(doc) == _reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [{"a": 1, "b": []}, {"a": 2, "c": []}, {"a": 3, "b": [4]}],
        {"x": {"a": 1, "b": [2]}, "y": {"a": 3, "b": {}}, "z": {"b": [], "a": None}},
        [{"a%s": [1], "b": "%s"}, {"a%s": {}, "b": "%(x)s"}, {"a%s": (), "b": "%%"}],
        [{"a": [1]}, {"a": {"b": [2]}}, {"a": {}}],
    ],
    ids=["different-keys", "dict-of-records", "percent", "nested-cell"],
)
def test_json_writer_matches_the_indent_encoder_on_near_tables(doc):
    """Record lists the table path must write as the walker does, or leave to it."""
    assert _written(doc) == _reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [{"a": 1, "b": [1]}, {"a": b"x", "b": [2]}, {"a": 3, "b": []}],
        [{"a": [1], "b": {1: 2, "x": 3}}, {"a": [2], "b": {}}, {"a": [], "b": {}}],
        {"x": [{"a": [b"x"]}, {"a": []}]},
        {"x": {"a": [1, 2], "b": [b"x"]}},
        [{"a": 1}, {"a": [1]}, {"a": {2: 0, "y": 1}}],
        {1: [1], "a": [2]},
    ],
    ids=["table-bytes", "table-mixed-keys", "leaf-list-bytes", "leaf-dict-bytes", "column-mixed-keys",
         "leaf-dict-mixed-outer-keys"],
)
def test_json_writer_raises_as_the_indent_encoder_on_bulk_shapes(tmp_path, doc):
    with pytest.raises(Exception) as expected:
        _reference(doc)
    dest = tmp_path / "out.json"
    with pytest.raises(expected.type):
        save_json(doc, dest)
    assert not dest.exists()


@st.composite
def _flat_records(draw):
    """2-9 records of scalars sharing fewer str keys than there are records."""
    rows = draw(st.integers(2, 9))
    names = draw(st.lists(TRICKY_KEYS, min_size=1, max_size=rows - 1, unique=True))
    return _nest(draw, _keyed(draw, [{k: draw(TRICKY_SCALARS) for k in names} for _ in range(rows)]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=_flat_records())
def test_json_writer_matches_the_indent_encoder_on_flat_records(doc):
    assert _written(doc) == _reference(doc)


def _written_by_calls(monkeypatch, doc) -> tuple[str, int]:
    """The writer's text of ``doc`` and how many C encoder calls made it."""
    make, calls = json.encoder.c_make_encoder, []

    def counting(*args):
        encode = make(*args)
        return lambda value, level: calls.append(value) or encode(value, level)

    with monkeypatch.context() as patch:
        patch.setattr(json.encoder, "c_make_encoder", counting)
        text = _written(doc)
    return text, len(calls)


@pytest.mark.parametrize(
    "doc, calls",
    [
        ([{"a%s": 1, "%": -0.0, "b%%": 2**70}, {"a%s": -(2**80), "%": 0.0, "b%%": "%s"}, {"a%s": 2, "%": 1e308, "b%%": ""},
          {"a%s": 0, "%": -1.5, "b%%": "%(x)s"}], 3),
        ([{"on": True, "off": False}, {"on": None, "off": 0}, {"on": 1, "off": 1.0}], 2),
        ({"x": {"s": 1, "p": 0.5}, "y": {"s": 2, "p": 0.25}, "z": {"s": 3, "p": -0.0}}, 2),
        ({3: {"s": 1}, 1: {"s": None}}, 3),  # and one call per int key
        ([{"a": 1, "b": 2, "c": 3}, {"a": 4, "b": 5, "c": 6}, {"a": 7, "b": 8, "c": 9}], 3),
        ([{"a": 1, "b": 2}, {"a": 3, "c": 4}, {"a": 5, "b": 6}], 3),
        ([{"a": 1, "b": 2}, {"a": 3}, {"a": 5, "b": 6}], 3),
        ([{"a": 1}, {"a": 2}, {}], 3),
    ],
    ids=["percent-zero-big-ints", "bools-and-none", "dict-of-records", "int-keyed-records", "rows-equal-keys",
         "mixed-keys", "short-row", "empty-row"],
)
def test_flat_records_take_the_table_path_when_they_are_a_table(monkeypatch, doc, calls):
    """A table of scalars is one C call per column; records that are not a
    table, one row fewer than the keys included, are walked: one C call per
    record, an empty one included."""
    text, made = _written_by_calls(monkeypatch, doc)
    assert text == _reference(doc)
    assert made == calls


def test_json_writer_holds_no_joined_copy_of_the_text(tmp_path):
    """``save_json`` writes the pieces it made, so its peak allocation
    stays well under the two copies a joined text would take."""
    words = np.array([b"%016d" % i for i in range(200_000)], "S16")
    doc = {f"k{j}": words.copy() for j in range(6)}
    dest = tmp_path / "out.json"
    tracemalloc.start()
    try:
        save_json(doc, dest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = dest.stat().st_size
    assert size == 6 * 200_000 * 24 + 87  # 28.8 MB
    assert peak < 1.5 * size


@pytest.mark.parametrize(
    "doc",
    [
        [{"a": 1, "b": b"x"}, {"a": 2, "b": 3}, {"a": 3, "b": 4}],
        {"x": {"a": object()}, "y": {"a": 1}},
        [{"a": 1, "b": {1, 2}}, {"a": 2, "b": 3}],
        [{"a": 1, "b": 2}, {"a": 2, "c": b"x"}, {"a": 3, "b": 4}],
        [{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 3, "b": float}],
    ],
    ids=["bytes", "object", "set-rows-equal-keys", "bytes-mixed-keys", "type"],
)
def test_json_writer_raises_as_the_indent_encoder_on_flat_records(tmp_path, doc):
    with pytest.raises(Exception) as expected:
        _reference(doc)
    dest = tmp_path / "out.json"
    with pytest.raises(expected.type, match=re.escape(str(expected.value))):
        save_json(doc, dest)
    assert not dest.exists()


# The characters json writes as themselves: printable ASCII but " and \.
PLAIN = "".join(chr(c) for c in range(0x20, 0x7F) if chr(c) not in '"\\')


def _strings(width: int, *words: str) -> np.ndarray:
    return np.array([w.encode() for w in words], f"S{width}")


@st.composite
def _string_arrays(draw):
    """A 1-D ``S<w>`` array of plain strings of exactly w bytes."""
    width = draw(st.integers(1, 4))
    return _strings(width, *draw(st.lists(st.text(PLAIN, min_size=width, max_size=width), max_size=6)))


def _decoded(doc):
    """``doc`` with each ``S`` array as the list of its ASCII strings."""
    if isinstance(doc, np.ndarray):
        return [word.decode("ascii") for word in doc.tolist()]
    if isinstance(doc, dict):
        return {k: _decoded(v) for k, v in doc.items()}
    return [_decoded(v) for v in doc] if isinstance(doc, (list, tuple)) else doc


@pytest.mark.parametrize("depth", range(4))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_json_writer_writes_a_string_array_as_the_list_of_its_strings(depth, data):
    doc = data.draw(_string_arrays())
    for _ in range(depth):
        wrap = [lambda d: [d], lambda d: {"k": d, "n": 0}, lambda d: [1, d], lambda d: {"a": d, "b": [d, "x"]}]
        doc = data.draw(st.sampled_from(wrap))(doc)
    assert _written(doc) == _reference(_decoded(doc))


def _inverse_depths(depth: int) -> dict:
    """The shape of ``carlab inverse``'s document at ``depth``."""
    region, rest = _strings(3, "001", "011"), _strings(3, "000", "010", "100")
    rows = [
        {"depth": d, "region": region, "cover": ["0*1"], "cumulative": region, "never_within": rest}
        for d in range(depth + 1)
    ]
    return {"n": 3, "forall": region, "exists": _strings(3), "depths": rows}


@pytest.mark.parametrize(
    "doc",
    [
        _strings(1),
        _strings(5),
        {"k": _strings(2), "n": []},
        _strings(1, "0", "1"),
        [_strings(1, "0"), _strings(1)],
        _inverse_depths(3),
        _inverse_depths(6),  # more rows than keys: a table, whose columns hold arrays
        [{"a": _strings(2, "01"), "b": 1}] * 3,
        {"x": {"a": _strings(1, "0"), "b": 2}, "y": {"a": _strings(1), "b": 3}, "z": {"a": _strings(1), "b": 4}},
        [[1, _strings(2, "ab")], [2, _strings(2, "cd")]],
        {"k": [["x", 0], ["y", _strings(1, "z")]]},
    ],
    ids=["empty", "empty-S5", "empty-in-dict", "S1", "S1-list", "inverse-depth-3", "inverse-depth-6",
         "table-column", "dict-of-records", "in-leaf-lists", "in-a-leaf-of-leaves"],
)
def test_json_writer_writes_string_arrays_in_every_shape(doc):
    assert _written(doc) == _reference(_decoded(doc))


@pytest.mark.parametrize(
    "array",
    [
        _strings(2, 'a"'),
        _strings(2, "a\\"),
        _strings(3, "a\x00b"),
        _strings(2, "a"),  # a short item: padded with NUL
        np.array([b"\x80"]),
        np.array([b"\x1f"]),
        np.array([b"\x7f"]),
        np.zeros((2, 2), "S1"),
        np.array(["u"]),
        np.zeros(2),
    ],
    ids=["quote", "backslash", "nul", "nul-padding", "0x80", "control", "del", "2-d", "str-array", "float-array"],
)
def test_json_writer_raises_as_json_for_an_array_it_does_not_write(tmp_path, array):
    """An array is written only when each byte is one json writes as
    itself; any other raises json's TypeError for an array, as json does."""
    for doc in (array, {"k": array}, [{"a": array, "b": 1}] * 3):
        with pytest.raises(TypeError) as expected:
            _reference(doc)
        dest = tmp_path / "out.json"
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            save_json(doc, dest)
        assert not dest.exists()


def _nested_text(depth: int) -> str:
    """``depth`` containers, dicts and lists in turn, each with a scalar
    next to the container it holds."""
    heads = ['{"k": ' if i % 2 == 0 else f"[{i}, " for i in range(depth)]
    tails = [f', "n": {i}}}' if i % 2 == 0 else "]" for i in reversed(range(depth))]
    return "".join(heads) + '"leaf"' + "".join(tails)


def test_report_writes_the_deepest_document_the_reader_accepts(tmp_path, capsys):
    """Binary-search the deepest nesting ``carlab report`` reads, then
    compare what it writes with the indent encoder's bytes."""
    path, out = tmp_path / "deep.json", tmp_path / "out.json"

    def report(depth: int) -> int:
        path.write_text(_nested_text(depth), encoding="utf-8")
        return main(["report", str(path), "--out", str(out)])

    low, high = 1, 100_000  # report(low) reads, report(high) does not
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if report(mid) == 0 else (low, mid)
    assert low > 500
    capsys.readouterr()
    assert report(high) == 1
    assert capsys.readouterr().err == f"error: {path}: nested too deep\n"
    assert report(low) == 0
    expected = _reference({"deep": json.loads(_nested_text(low))})
    assert out.read_text(encoding="utf-8") == expected


def _encoder_entries(source: str) -> list[str]:
    """The JSON encoder names the code of ``source`` uses; strings,
    docstrings and comments do not count."""
    code = " ".join(
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type in (tokenize.NAME, tokenize.OP)
    )
    return re.findall(r"\bjson \. dumps?\b|\bJSONEncoder\b|\bc_make_encoder\b", code)


def test_one_json_encoder_entry_point():
    """No module but ``core``'s writer calls or builds a JSON encoder."""
    writer = inspect.getsource(core._indented_json)
    assert sorted(_encoder_entries(writer)) == ["JSONEncoder", "c_make_encoder"]
    for module in sorted(Path(core.__file__).parent.glob("*.py")):
        source = module.read_text(encoding="utf-8")
        if module.name == "core.py":
            source = source.replace(writer, "")
        assert _encoder_entries(source) == [], module.name


def _csv_reader_entries(source: str) -> list[str]:
    """The names of ``csv``'s reader in the code of ``source``; strings,
    docstrings and comments do not count."""
    code = " ".join(
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type in (tokenize.NAME, tokenize.OP)
    )
    return re.findall(r"\bcsv \. (?:reader|DictReader)\b|\bfrom csv import\b", code)


def test_one_csv_reader_entry_point():
    """No code but ``core._read_csv`` names ``csv.reader``."""
    reader = inspect.getsource(core._read_csv)
    assert _csv_reader_entries(reader) == ["csv . reader"]
    for module in sorted(Path(core.__file__).parent.glob("*.py")):
        source = module.read_text(encoding="utf-8")
        if module.name == "core.py":
            source = source.replace(reader, "")
        assert _csv_reader_entries(source) == [], module.name
