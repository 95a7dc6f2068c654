"""The block CSV writer writes the bytes ``csv.writer`` writes, and files it
writes with awkward ids read back through the loaders."""

import csv
import io

import numpy as np
from hypothesis import given, settings, strategies as st

from carlab import core
from carlab.core import TraceEvent, _csv_texts, _write_csv, load_learning_set, load_trace_log, save_dataset, save_trace_log

# Every character csv.writer quotes for, and some it leaves alone.
_ALPHABET = st.sampled_from([",", '"', "\r", "\n", "\x00", "\t", " ", "é", " ", "a", "1", "-"])
_FIELD = st.text(_ALPHABET, max_size=6)


def csv_writer_bytes(header, rows):
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4).flatmap(lambda w: st.tuples(
    st.lists(_FIELD, min_size=w, max_size=w),
    st.lists(st.lists(_FIELD, min_size=w, max_size=w), max_size=12),
    st.integers(0, 14),
)))
def test_rows_are_written_as_csv_writer_writes_them(tmp_path_factory, case):
    header, rows, block = case
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    # Blocks of a few rows, so that a block boundary falls inside the rows.
    saved, core._WRITE_ROWS = core._WRITE_ROWS, max(1, block)
    try:
        columns = [list(_csv_texts(column)) for column in zip(*rows)]
        _write_csv(path, header, zip(*columns))
    finally:
        core._WRITE_ROWS = saved
    assert path.read_bytes() == csv_writer_bytes(header, rows)


def test_a_file_of_more_rows_than_a_block(tmp_path):
    rows = [[f"id,{k}", str(k), ""] for k in range(core._WRITE_ROWS + 3)]
    _write_csv(tmp_path / "out.csv", ["id", "n", "x"], ([_csv_texts(r[:1])[0], *r[1:]] for r in rows))
    assert (tmp_path / "out.csv").read_bytes() == csv_writer_bytes(["id", "n", "x"], rows)


AWKWARD_IDS = ["a,b", 'q"uote', "cr\rlf\n", "nul\x00", "tab\t", " space", "é", " "]


def test_a_dataset_with_awkward_ids_round_trips(tmp_path):
    x = np.array([[0.5, -0.0], [1e-300, 2.0], [-1.5, 3.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    labels = np.array([0, 1, 2, 0, 1, 0, 0, 1])
    save_dataset(AWKWARD_IDS, x, labels, tmp_path / "data.csv")
    learning_set = load_learning_set(tmp_path / "data.csv")
    assert learning_set.ids == tuple(AWKWARD_IDS)
    assert learning_set.X.tobytes() == x.tobytes() and learning_set.labels.tolist() == labels.tolist()


def test_a_trace_log_with_awkward_ids_and_actions_round_trips(tmp_path):
    events = [
        TraceEvent(object_id, step, float(step), (float(k), -0.0), label, action)
        for k, object_id in enumerate(AWKWARD_IDS)
        for step, label, action in ((0, 2, 'go, "now"'), (1, 1, "a\r\nb"), (2, 0, None))
    ]
    save_trace_log(events, tmp_path / "traces.csv")
    table = load_trace_log(tmp_path / "traces.csv")
    assert sorted(table.object_ids) == sorted(AWKWARD_IDS)
    assert set(table.actions) == {'go, "now"', "a\r\nb"}
    save_trace_log(table, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "traces.csv").read_bytes()
