"""The columnar trace reader against a row-at-a-time reference.

Random trace logs are written as CSV, their rows shuffled, blank lines
put in, and up to two fields (or rows) changed.  The reader with its
transition and policy counts must agree with ``oracles.trace_log_oracle``
on every file: the same graph and observed policy, or the same error.
"""

import csv

import pytest
from hypothesis import given, settings, strategies as st

from carlab import synth
from carlab.core import CarlabError, DataFormatError, TraceEvent, TraceTable, load_trace_log
from carlab.mdp import extract_observed_policy
from carlab.poset import extract_relation

import oracles

# Replacement values per column; none is a negative class or an empty id.
STEP_TEXTS = ["x", "+1", "01", " 1", "1.0", "-1", "-0", "0", "1", "2", "7", ""]
NUMBER_TEXTS = ["nan", "inf", "-inf", "1e999", "x", "", "-1.0", "0.0", "0.5", "3", "1e3"]
CLASS_TEXTS = ["x", "+1", "01", "1.5", "", "0", "1", "2", "3"]
ACTION_TEXTS = ["", "a1", "a2", "a9"]


@st.composite
def trace_files(draw, tmp_path_factory):
    rng = synth.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 3))
    traces = synth.random_trace_log(
        rng,
        n_objects=draw(st.integers(1, 6)),
        classes=draw(st.integers(2, 5)),
        n_features=n,
        max_len=draw(st.integers(2, 6)),
    )
    rows = [
        [e.object_id, str(e.step), repr(e.timestamp)]
        + [repr(v) for v in e.state]
        + [str(e.assigned_class), e.applied_action or ""]
        for events in traces.values()
        for e in events
    ]
    # Objects already normal at step 0, as a simulation records them.
    rows += [[f"n{k}", "0", "1.0"] + ["0.0"] * n + ["0", ""] for k in range(draw(st.integers(0, 2)))]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        rows = _mutate(draw, rows, n)
    for k in sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)), reverse=True):
        rows.insert(k, [])
    path = tmp_path_factory.mktemp("traces") / "t.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "step", "timestamp"] + [f"f{j}" for j in range(1, n + 1)] + ["class", "action"])
        writer.writerows(rows)
    return path


def _mutate(draw, rows, n):
    """Change one field of one row, or its field count, or make it a
    normal-class event."""
    kind = draw(st.sampled_from(["id", "step", "timestamp", "number", "class", "action", "width", "normal"]))
    r = draw(st.integers(0, len(rows) - 1))
    row = rows[r]
    if kind == "id":
        row[0] = draw(st.sampled_from(sorted({other[0] for other in rows} | {"new"})))
    elif kind == "step":
        row[1] = draw(st.sampled_from(STEP_TEXTS))
    elif kind == "timestamp":
        row[2] = draw(st.sampled_from(NUMBER_TEXTS))
    elif kind == "number":
        row[draw(st.integers(2, 2 + n))] = draw(st.sampled_from(NUMBER_TEXTS))
    elif kind == "class":
        row[-2] = draw(st.sampled_from(CLASS_TEXTS))
    elif kind == "action":
        row[-1] = draw(st.sampled_from(ACTION_TEXTS))
    elif kind == "width":
        rows[r] = row[:-1] if draw(st.booleans()) else row + ["x"]
    elif kind == "normal":
        row[-2:] = ["0", ""]
    return rows


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_and_counts_match_the_row_oracle(tmp_path_factory, data):
    path = data.draw(trace_files(tmp_path_factory))
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


@pytest.mark.parametrize(
    "row, message",
    [
        ("a,-1,-1.0,5.0,1,a1", "step must be nonnegative"),
        ("a,x,nan,5.0,1,a1", "t.csv:2: bad integer value 'x'"),
        ("a,0,1.0,x,y,a1", "t.csv:2: bad numeric value 'x'"),
        ("a,0,nan,5.0,x,a1", "t.csv:2: non-finite value for 'a'"),
        ("a,0,-1.0,5.0,0,a1", "timestamp must be nonnegative"),
        ("a,0,1.0,5.0,-1,", "missing action on deviated-class event ('a', step 0)"),
        (",0,1.0,5.0,-1,a1", "t.csv:2: negative class index -1"),
        (",0,1.0,5.0,1,a1", "t.csv:2: object_id must be nonempty"),
    ],
)
def test_first_failing_check_of_a_row_is_reported(tmp_path, row, message):
    path = tmp_path / "t.csv"
    path.write_text(f"id,step,timestamp,f1,class,action\n{row}\nb,x,1.0,1.0,1,a1\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as exc:
        load_trace_log(path)
    assert str(exc.value).endswith(message)


def test_in_memory_events_get_the_file_checks():
    events = [TraceEvent("a", 0, 1.0, (0.0,), 1, "a1"), TraceEvent("a", 1, 1.0, (0.0,), 0, None)]
    with pytest.raises(DataFormatError, match="non-increasing timestamp for 'a' at step 1"):
        TraceTable.from_events(events)
    with pytest.raises(DataFormatError, match="negative class index -1"):
        TraceTable.from_events([TraceEvent("a", 0, 1.0, (0.0,), -1, "a1")])


@pytest.mark.parametrize(
    "n_objects, classes, max_len", [(0, 4, 8), (20, 1, 8), (20, 0, 8), (20, 4, 1), (20, 4, 0)]
)
def test_generator_rejects_sizes_that_record_no_transition(n_objects, classes, max_len):
    rng = synth.default_rng(0)
    with pytest.raises(CarlabError, match="max_len >= 2"):
        synth.random_trace_log(rng, n_objects=n_objects, classes=classes, max_len=max_len)
