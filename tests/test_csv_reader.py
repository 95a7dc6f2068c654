"""The CSV reader against ``csv.reader``.

``core._read_csv`` splits a file with no quote character into lines and
fields itself.  On random text it must return what a reader built on
``csv.reader`` returns: the same header, columns, row lines and malformed
rows.  Files whose ids and actions hold commas, quotes and newlines go
through ``csv.reader``; they must read like the row-at-a-time oracle and
round-trip byte for byte.
"""

import csv

import pytest
from hypothesis import example, given, settings, strategies as st

from carlab import synth
from carlab.core import (
    CarlabError,
    DataFormatError,
    LearningSample,
    LearningSet,
    _read_csv,
    load_learning_set,
    load_trace_log,
    save_learning_set,
)
from carlab.mdp import extract_observed_policy
from carlab.poset import extract_relation, load_transition_records, save_transition_records

import oracles

# Quote-free pieces of text: ragged rows, blank lines and every newline.
PIECES = [",", "\n", "\r", "\r\n", "\n\n", " ", "\x00", "é", "a", "1", "x,y", "\t", "-0.5"]
# A quote, and line breaks of str.splitlines that csv.reader does not break at.
NOT_SPLIT = ['"', "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _reference(path):
    """``_read_csv``'s result by ``csv.reader``: the header, the columns,
    ``where(k)`` of each row and the malformed-row mask."""
    with path.open(newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    if not records:
        raise DataFormatError(f"{path}: empty file")
    header = records[0]
    numbered = [(line, row) for line, row in enumerate(records[1:], start=2) if row]
    bad = [len(row) != len(header) for _, row in numbered]
    rows = [[""] * len(header) if b else row for (_, row), b in zip(numbered, bad)]
    columns = [[row[j] for row in rows] for j in range(len(header))]
    return header, columns, [f"{path}:{line}" for line, _ in numbered], bad


def _read(path):
    header, columns, where, malformed = _read_csv(path)
    rows = len(columns[0]) if columns else len(malformed[0]) if malformed else 0
    places = [where(k) for k in range(rows)]
    if malformed is None:
        return header, columns, places, [False] * rows
    bad, message = malformed
    for k in range(rows):
        if bad[k]:
            assert message(k) == f"{places[k]}: malformed row, expected {len(header)} fields"
    return header, columns, places, bad.tolist()


@st.composite
def csv_texts(draw):
    text = "".join(draw(st.lists(st.sampled_from(PIECES), max_size=40)))
    if draw(st.booleans()):  # one piece that sends the file to csv.reader
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from(NOT_SPLIT)) + text[k:]
    return text


@settings(max_examples=400, deadline=None)
@given(text=csv_texts())
@example(text="\nid,f1,class\na,1,0\n")  # a blank first line is the header []
@example(text="id,f1\r\n\r\na,1\rb,2,3")
@example(text="")
def test_reader_matches_csv_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = _reference(path)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as got:
            _read_csv(path)
        assert str(got.value) == str(exc)
        return
    assert _read(path) == expected


IDS = ["o,1", 'o"2', "o\n3", "o\r\n4", "o\r5", '"', ",", " o 6 ", 'é,"\n']
ACTIONS = ["a,1", 'a"2', "a\n3", "a\r\n4", "a\r5"]


@st.composite
def quoted_trace_files(draw, tmp_path_factory):
    """Trace logs whose ids and actions hold commas, quotes and newlines,
    rows shuffled, blank rows put in and at most one field changed or added."""
    rng = synth.default_rng(draw(st.integers(0, 2**16)))
    traces = synth.random_trace_log(
        rng, n_objects=draw(st.integers(1, len(IDS))), classes=draw(st.integers(2, 5)),
        n_features=1, max_len=draw(st.integers(2, 5)),
    )
    ids = dict(zip(traces, IDS))
    names = {}
    rows = [
        [ids[e.object_id], str(e.step), repr(e.timestamp), repr(e.state[0]), str(e.assigned_class),
         names.setdefault(e.applied_action, ACTIONS[len(names) % len(ACTIONS)]) if e.applied_action else ""]
        for events in traces.values()
        for e in events
    ]
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):  # one field changed, or at j = 6 one field too many
        row, j = draw(st.sampled_from(rows)), draw(st.integers(0, 6))
        row[j : j + 1] = [draw(st.sampled_from(IDS + ACTIONS + ["x", "7"]))]
    for k in sorted(draw(st.lists(st.integers(0, len(rows)), max_size=2)), reverse=True):
        rows.insert(k, [])
    path = tmp_path_factory.mktemp("quoted") / "t.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "step", "timestamp", "f1", "class", "action"])
        writer.writerows(rows)
    return path


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quoted_trace_log_matches_the_row_oracle(tmp_path_factory, data):
    path = data.draw(quoted_trace_files(tmp_path_factory))
    assert '"' in path.read_text(encoding="utf-8")
    try:
        expected = oracles.trace_log_oracle(path)
    except DataFormatError as exc:
        expected = str(exc)
    try:
        table = load_trace_log(path)
    except DataFormatError as exc:
        assert str(exc) == expected
        return
    try:
        graph = extract_relation(table)
        relation = ({(e.src, e.action, e.dst): e.count for e in graph.edges}, graph.classes)
    except CarlabError as exc:
        relation = str(exc)
    assert (relation, extract_observed_policy(table).decision) == expected


def test_quoted_dataset_round_trips(tmp_path):
    samples = [LearningSample(object_id, (float(k), 0.5), k % 2) for k, object_id in enumerate(IDS)]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    save_learning_set(LearningSet.build(samples), first)
    loaded = load_learning_set(first)
    assert [s.object_id for s in loaded.samples] == IDS
    save_learning_set(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_quoted_transition_records_round_trip(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    with first.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from_class", "action", "to_class", "count"])
        writer.writerows(sorted([k % 3 + 1, action, k % 3, k + 1] for k, action in enumerate(ACTIONS)))
    graph = load_transition_records(first)
    assert sorted(e.action for e in graph.edges) == sorted(ACTIONS)
    save_transition_records(graph, second)
    assert second.read_bytes() == first.read_bytes()
