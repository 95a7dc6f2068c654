"""A trace log laid out as the benchmark writes it is read by np.loadtxt.

``core._read_csv`` sends a file to ``csv.reader`` whenever the fast reader
declines it, and both give the same table, so only the speed would show a
layout that falls back.  Here ``csv.reader`` raises: a written trace log,
with CRLF lines as ``csv.writer`` ends them and with LF lines, must still
read, with one feature column (a float block of shape (1,)) and with 20.
"""

import csv

import numpy as np
import pytest

from carlab import synth
from carlab.core import TraceTable, load_trace_log, save_trace_log


def _refuse(*args, **kwargs):
    raise AssertionError("read by csv.reader")


@pytest.mark.parametrize("features", [1, 20])
def test_a_saved_trace_log_is_read_without_csv_reader(tmp_path, monkeypatch, features):
    traces = synth.random_trace_log(synth.default_rng(5), n_objects=40, classes=6, n_features=features, max_len=12)
    crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
    save_trace_log(traces, crlf)
    assert crlf.read_bytes().count(b"\r\n") == 1 + sum(map(len, traces.values()))
    lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
    expected = TraceTable.from_events(traces)
    monkeypatch.setattr(csv, "reader", _refuse)
    for path in (crlf, lf):
        table = load_trace_log(path)
        assert table == expected
        assert table.state.shape == (len(expected), features)
        assert np.array_equal(table.state, expected.state)
