"""The CSV reader against ``csv.reader``.

``core._read_csv`` reads an ASCII file with no quote character by
``np.loadtxt``.  On random text, read as str columns, it must return what
a reader built on ``csv.reader`` returns: the same header, columns, row
lines and malformed rows.  Files whose ids and actions hold commas, quotes and newlines go
through ``csv.reader``; they must read like the row-at-a-time oracle and
round-trip byte for byte.
"""

import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carlab import synth
from carlab.core import (
    CarlabError,
    DataFormatError,
    LearningSample,
    LearningSet,
    _read_csv,
    _read_dataset,
    load_learning_set,
    load_trace_log,
    save_learning_set,
)
from carlab.mdp import extract_observed_policy
from carlab.poset import _graph, extract_relation, load_transition_records, save_transition_records

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


def _texts(header):
    return [str] * len(header)


def _read(path):
    header, codes, where, malformed, unread = _read_csv(path, _texts)
    assert unread == [None] * len(header)
    columns = [[names[k] for k in column.tolist()] for names, column in codes]
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
            _read_csv(path, _texts)
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


# --- The numpy reader against row-at-a-time oracles -------------------------
#
# Quote-free files go to np.loadtxt unless something in them reads otherwise
# there; every file must read as csv.reader row by row reads it.

ODD = [" 1", "+1", "01", "-0", "1_0", "١", "nan", "-inf", "1e400", "1.", ".5"]
QUOTE_FREE_IDS = ["o1", "o2", "a b", " x", "o1 ", "object-7"]
QUOTE_FREE_ACTIONS = ["a1", "a2", "b c"]
SPACERS = ["", "", " ", "\t"]  # blank and whitespace-only lines


@st.composite
def quote_free_text(draw, header, rows):
    """``header`` and ``rows`` as quote-free CSV text, with at most two
    fields changed to odd tokens, a ragged row, a NUL or a non-ASCII
    letter, blank and whitespace-only lines, and LF, CRLF or a lone CR
    between lines."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD + QUOTE_FREE_IDS))
    if rows and draw(st.integers(0, 5)) == 0:  # one row a field short or long
        row = draw(st.sampled_from(rows))
        row[len(row) - 1 :] = [] if draw(st.booleans()) else [row[-1], "1"]
    if rows and draw(st.integers(0, 3)) == 0:  # a NUL or a non-ASCII letter in a field
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] += draw(st.sampled_from(["\x00", "é"]))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(SPACERS)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [newline] * len(lines)
    if draw(st.integers(0, 7)) == 0:
        ends[draw(st.integers(0, len(ends) - 1))] = "\r"
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _float_text(draw, low, high):
    """A text of a multiple of 1/4 in [low, high]: short, so a small file
    is not sent to csv.reader for its width (``test_loadtxt_reads_floats_as_float_does``
    reads long texts)."""
    value = draw(st.integers(low * 4, high * 4)) / 4
    return draw(st.sampled_from([repr(value), f"{value:.1f}", f"{value:.2f}", f"{value:g}"]))


@st.composite
def quote_free_trace_logs(draw):
    n = draw(st.integers(1, 3))
    rows = []
    for object_id in draw(st.lists(st.sampled_from(QUOTE_FREE_IDS), max_size=4, unique=True)):
        t = draw(st.integers(0, 4))
        for step in range(draw(st.integers(1, 4))):
            t += draw(st.integers(0, 2))  # now and then the same timestamp twice
            label = draw(st.integers(0, 3))
            action = draw(st.sampled_from(QUOTE_FREE_ACTIONS)) if label else ""
            state = [_float_text(draw, -10, 10) for _ in range(n)]
            rows.append([object_id, str(step), draw(st.sampled_from([str(t), f"{t}.5", f"{t}e0"])), *state,
                         str(label), action])
    rows = draw(st.permutations(rows))
    header = ["id", "step", "timestamp", *(f"f{j}" for j in range(1, n + 1)), "class", "action"]
    return draw(quote_free_text(header, rows))


def _write(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("quote_free") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def _message_or(read, path):
    try:
        return read(path)
    except DataFormatError as exc:
        return str(exc)


def _bits(values):
    return [float(v).hex() for v in values]


def _table_rows(path):
    """The rows of a valid trace log by csv.reader: objects in order of first
    appearance, each object's rows by step, floats as hex."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    first = {}
    for row in rows:
        first.setdefault(row[0], len(first))
    rows.sort(key=lambda row: (first[row[0]], int(row[1])))
    return list(first), [(row[0], int(row[1]), *_bits(row[2:-2]), int(row[-2]), row[-1]) for row in rows]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@example(data=None)  # a header-only file
def test_quote_free_trace_log_matches_the_row_oracle(tmp_path_factory, data):
    text = "id,step,timestamp,f1,class,action\r\n" if data is None else data.draw(quote_free_trace_logs())
    path = _write(tmp_path_factory, text)
    expected = _message_or(oracles.trace_log_oracle, path)
    table = _message_or(load_trace_log, path)
    if isinstance(table, str):
        assert table == expected
        return
    try:
        graph = extract_relation(table)
        relation = ({(e.src, e.action, e.dst): e.count for e in graph.edges}, graph.classes)
    except CarlabError as exc:
        relation = str(exc)
    assert (relation, extract_observed_policy(table).decision) == expected
    names = table.actions + ("",)
    rows = zip(
        [table.object_ids[o] for o in table.obj.tolist()], table.step.tolist(), _bits(table.timestamp),
        *(_bits(column) for column in table.state.T), table.label.tolist(), [names[a] for a in table.action.tolist()],
    )
    assert (list(table.object_ids), list(rows)) == _table_rows(path)


def _csv_records(path):
    with path.open(newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    if not records:
        raise DataFormatError(f"{path}: empty file")
    return records[0], [(line, row) for line, row in enumerate(records[1:], start=2) if row]


def _number(text, where):
    try:
        return float(text)
    except ValueError:
        raise DataFormatError(f"{where}: bad numeric value {text!r}") from None


def _integer(text, where):
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text or not -(2**63) <= value < 2**63:
        raise DataFormatError(f"{where}: bad integer value {text!r}")
    return value


def dataset_oracle(path, labelled):
    """``_read_dataset`` one csv.reader row at a time, floats as hex."""
    header, rows = _csv_records(path)
    has_class = header[-1:] == ["class"]
    if len(header) < 2 + has_class or header[0] != "id" or labelled and not has_class:
        raise DataFormatError(f"{path}: bad header {header!r}")
    features = header[1 : len(header) - has_class]
    if features != [f"f{j}" for j in range(1, len(features) + 1)]:
        raise DataFormatError(f"bad feature columns {features!r}")
    out = []
    for line, row in rows:
        where = f"{path}:{line}"
        if len(row) != len(header):
            raise DataFormatError(f"{where}: malformed row, expected {len(header)} fields")
        values = [_number(text, where) for text in row[1 : len(features) + 1]]
        if not all(math.isfinite(v) for v in values):
            raise DataFormatError(f"{where}: non-finite value for {row[0]!r}")
        out.append((row[0], _bits(values), _integer(row[-1], where) if labelled else None))
    return out


@st.composite
def quote_free_datasets(draw):
    n, has_class = draw(st.integers(1, 3)), draw(st.booleans())
    header = ["id", *(f"f{j}" for j in range(1, n + 1))] + ["class"] * has_class
    rows = [
        [draw(st.sampled_from(QUOTE_FREE_IDS)), *(_float_text(draw, -100, 100) for _ in range(n))]
        + [str(draw(st.integers(0, 3)))] * has_class
        for _ in range(draw(st.integers(0, 10)))
    ]
    return draw(quote_free_text(header, rows))


@settings(max_examples=150, deadline=None)
@given(text=quote_free_datasets(), labelled=st.booleans())
@example(text="id,f1,class\n", labelled=True)
@example(text="id,f1,class\na\x00,1.5,0\nb,2.5,1\n", labelled=True)  # a NUL that an S field would drop
@example(text="id,f1,é\na,1.5,0\n", labelled=False)  # a non-ASCII header
@example(text="id,f1,class\nobject-7,1,0\n", labelled=True)  # the widest field is an id
@example(text="id,f1,f2\no1,-inf,1e400\no1,0.0,0.0,1\n", labelled=False)  # -inf beside inf
@example(text="id,f1,f2\na,1e308,1e308\n", labelled=False)  # finite fields whose sum overflows
def test_quote_free_dataset_matches_the_row_oracle(tmp_path_factory, text, labelled):
    path = _write(tmp_path_factory, text)
    columns = lambda ids, X, labels: zip(ids, X, [None] * len(ids) if labels is None else labels.tolist())
    read = lambda p: [(i, _bits(x), label) for i, x, label in columns(*_read_dataset(p, labelled))]
    assert _message_or(read, path) == _message_or(lambda p: dataset_oracle(p, labelled), path)


def transitions_oracle(path):
    """``load_transition_records`` one csv.reader row at a time: the
    summed counts, or the message of the error."""
    header, rows = _csv_records(path)
    if header != ["from_class", "action", "to_class", "count"]:
        raise DataFormatError(f"{path}: bad header {header!r}")
    counts = {}
    for line, row in rows:
        where = f"{path}:{line}"
        if len(row) != len(header):
            raise DataFormatError(f"{where}: malformed row, expected {len(header)} fields")
        src, dst, count = (_integer(row[j], where) for j in (0, 2, 3))
        counts[src, row[1], dst] = counts.get((src, row[1], dst), 0) + count
    return counts


def _edges(graph):
    return {(e.src, e.action, e.dst): e.count for e in graph.edges}


@st.composite
def quote_free_transitions(draw):
    rows = [
        [str(draw(st.integers(1, 3))), draw(st.sampled_from(QUOTE_FREE_ACTIONS)), str(draw(st.integers(0, 2))),
         str(draw(st.integers(1, 5)))]
        for _ in range(draw(st.integers(0, 8)))
    ]
    return draw(quote_free_text(["from_class", "action", "to_class", "count"], rows))


@settings(max_examples=150, deadline=None)
@given(text=quote_free_transitions())
@example(text="from_class,action,to_class,count\n")
@example(text="from_class,action,to_class,count\n1,a,0,9223372036854775807\n1,a,0,2\n")
def test_quote_free_transitions_match_the_row_oracle(tmp_path_factory, text):
    path = _write(tmp_path_factory, text)
    try:
        expected = _edges(_graph(transitions_oracle(path)))
    except CarlabError as exc:
        expected = str(exc)
    try:
        got = _edges(load_transition_records(path))
    except CarlabError as exc:
        got = str(exc)
    assert got == expected


DECIMALS = st.from_regex(r"\A[+-]?([0-9]{1,25}(\.[0-9]{0,25})?|\.[0-9]{1,25})([eE][+-]?[0-9]{1,4})?\Z")


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(st.floats().map(repr) | DECIMALS, min_size=1, max_size=30))
@example(texts=["1e400", "-inf", "nan", "1.", ".5", "-0", "4.9406564584124654e-324", "0.30000000000000004"])
def test_loadtxt_reads_floats_as_float_does(tmp_path_factory, texts):
    """np.loadtxt's float64 has the bits of ``float()`` on every repr of a
    float and on decimal text, with no csv.reader to fall back to."""
    path = _write(tmp_path_factory, "x,y\n" + "".join(f"{t},{u}\n" for t, u in zip(texts, reversed(texts))))
    with mock.patch.object(csv, "reader", side_effect=AssertionError("read by csv.reader")):
        _, columns, *_ = _read_csv(path, lambda header: [float, float])
    expected = np.array([float(t) for t in texts])
    assert [column.tobytes() for column in columns] == [expected.tobytes(), expected[::-1].tobytes()]
